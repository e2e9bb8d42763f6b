//! Exact geometric predicates over grid-snapped points.
//!
//! Because every coordinate is an integer multiple of [`crate::GRID`] with
//! magnitude ≤ [`crate::MAX_COORD`], the scaled coordinates are integers
//! |v| ≤ 2²⁴. The `orient2d` determinant is then ≤ 2·2⁵⁰ and the
//! `incircle` determinant ≤ 6·2¹⁰² — both exact in `i128`, so these
//! predicates never misclassify, with no adaptive-precision machinery.

use crate::point::{Coord, Point};

/// Sign of the signed area of triangle `(a, b, c)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Orientation {
    /// `(a, b, c)` turns counter-clockwise (positive area).
    CounterClockwise,
    /// `(a, b, c)` turns clockwise (negative area).
    Clockwise,
    /// The three points are collinear.
    Collinear,
}

/// Exact orientation test.
#[inline]
pub fn orient2d<C: Coord>(a: &Point<C>, b: &Point<C>, c: &Point<C>) -> Orientation {
    let (ax, ay) = a.grid();
    let (bx, by) = b.grid();
    let (cx, cy) = c.grid();
    let det = (bx - ax) as i128 * (cy - ay) as i128 - (by - ay) as i128 * (cx - ax) as i128;
    match det.cmp(&0) {
        std::cmp::Ordering::Greater => Orientation::CounterClockwise,
        std::cmp::Ordering::Less => Orientation::Clockwise,
        std::cmp::Ordering::Equal => Orientation::Collinear,
    }
}

/// Exact in-circle test: is `d` strictly inside the circumcircle of the
/// **counter-clockwise** triangle `(a, b, c)`?
///
/// Points exactly on the circle return `false` (closed-circle emptiness is
/// the non-strict Delaunay condition, which keeps cavity retriangulation
/// deterministic under cocircular inputs).
#[inline]
pub fn incircle<C: Coord>(a: &Point<C>, b: &Point<C>, c: &Point<C>, d: &Point<C>) -> bool {
    debug_assert_ne!(
        orient2d(a, b, c),
        Orientation::Clockwise,
        "incircle requires CCW triangle"
    );
    let (ax, ay) = a.grid();
    let (bx, by) = b.grid();
    let (cx, cy) = c.grid();
    let (dx, dy) = d.grid();

    let adx = (ax - dx) as i128;
    let ady = (ay - dy) as i128;
    let bdx = (bx - dx) as i128;
    let bdy = (by - dy) as i128;
    let cdx = (cx - dx) as i128;
    let cdy = (cy - dy) as i128;

    let ad2 = adx * adx + ady * ady;
    let bd2 = bdx * bdx + bdy * bdy;
    let cd2 = cdx * cdx + cdy * cdy;

    let det = adx * (bdy * cd2 - cdy * bd2) - ady * (bdx * cd2 - cdx * bd2)
        + ad2 * (bdx * cdy - cdx * bdy);
    det > 0
}

/// True if point `p` lies inside or on the boundary of the CCW triangle
/// `(a, b, c)`.
#[inline]
pub fn in_triangle<C: Coord>(a: &Point<C>, b: &Point<C>, c: &Point<C>, p: &Point<C>) -> bool {
    orient2d(a, b, p) != Orientation::Clockwise
        && orient2d(b, c, p) != Orientation::Clockwise
        && orient2d(c, a, p) != Orientation::Clockwise
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point<f64> {
        Point::snapped(x, y)
    }

    #[test]
    fn orientation_basic() {
        assert_eq!(
            orient2d(&p(0.0, 0.0), &p(1.0, 0.0), &p(0.0, 1.0)),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orient2d(&p(0.0, 0.0), &p(0.0, 1.0), &p(1.0, 0.0)),
            Orientation::Clockwise
        );
        assert_eq!(
            orient2d(&p(0.0, 0.0), &p(1.0, 1.0), &p(2.0, 2.0)),
            Orientation::Collinear
        );
    }

    #[test]
    fn orientation_is_exact_at_grid_resolution() {
        // A near-collinear triple one grid step off the line.
        let a = p(0.0, 0.0);
        let b = p(8192.0, 0.0);
        let c = Point::<f64>::snapped(4096.0, 1.0 / 1024.0);
        assert_eq!(orient2d(&a, &b, &c), Orientation::CounterClockwise);
        let c_on = p(4096.0, 0.0);
        assert_eq!(orient2d(&a, &b, &c_on), Orientation::Collinear);
    }

    #[test]
    fn incircle_unit_circle() {
        // CCW triangle on the unit circle around the origin.
        let a = p(1.0, 0.0);
        let b = p(0.0, 1.0);
        let c = p(-1.0, 0.0);
        assert!(incircle(&a, &b, &c, &p(0.0, 0.0)));
        assert!(!incircle(&a, &b, &c, &p(2.0, 0.0)));
        // On the circle: not strictly inside.
        assert!(!incircle(&a, &b, &c, &p(0.0, -1.0)));
    }

    #[test]
    fn incircle_agrees_with_distance_to_circumcenter() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut tested = 0;
        while tested < 200 {
            let mut pt = || p(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0));
            let (a, b, c, d) = (pt(), pt(), pt(), pt());
            let (a, b, c) = match orient2d(&a, &b, &c) {
                Orientation::CounterClockwise => (a, b, c),
                Orientation::Clockwise => (a, c, b),
                Orientation::Collinear => continue,
            };
            let Some(cc) = crate::triangle::circumcenter_f64(&a, &b, &c) else {
                continue;
            };
            let r2 = (a.xf() - cc.0).powi(2) + (a.yf() - cc.1).powi(2);
            let d2 = (d.xf() - cc.0).powi(2) + (d.yf() - cc.1).powi(2);
            // Only judge clearly-separated cases with the float oracle.
            if (d2 - r2).abs() > 1e-3 * r2.max(1.0) {
                assert_eq!(incircle(&a, &b, &c, &d), d2 < r2);
                tested += 1;
            }
        }
    }

    #[test]
    fn in_triangle_inclusive() {
        let (a, b, c) = (p(0.0, 0.0), p(4.0, 0.0), p(0.0, 4.0));
        assert!(in_triangle(&a, &b, &c, &p(1.0, 1.0)));
        assert!(in_triangle(&a, &b, &c, &p(0.0, 0.0)), "vertex included");
        assert!(in_triangle(&a, &b, &c, &p(2.0, 0.0)), "edge included");
        assert!(!in_triangle(&a, &b, &c, &p(3.0, 3.0)));
        assert!(!in_triangle(&a, &b, &c, &p(-0.25, 1.0)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_point() -> impl Strategy<Value = Point<f64>> {
        (-4000.0f64..4000.0, -4000.0f64..4000.0).prop_map(|(x, y)| Point::snapped(x, y))
    }

    proptest! {
        /// Swapping two arguments flips orientation.
        #[test]
        fn orientation_antisymmetry(a in arb_point(), b in arb_point(), c in arb_point()) {
            let o1 = orient2d(&a, &b, &c);
            let o2 = orient2d(&b, &a, &c);
            match o1 {
                Orientation::Collinear => prop_assert_eq!(o2, Orientation::Collinear),
                Orientation::CounterClockwise => prop_assert_eq!(o2, Orientation::Clockwise),
                Orientation::Clockwise => prop_assert_eq!(o2, Orientation::CounterClockwise),
            }
        }

        /// Orientation is invariant under cyclic rotation of arguments.
        #[test]
        fn orientation_cyclic(a in arb_point(), b in arb_point(), c in arb_point()) {
            prop_assert_eq!(orient2d(&a, &b, &c), orient2d(&b, &c, &a));
        }

        /// incircle is invariant under cyclic rotation of the triangle.
        #[test]
        fn incircle_cyclic(a in arb_point(), b in arb_point(), c in arb_point(), d in arb_point()) {
            let (a, b, c) = match orient2d(&a, &b, &c) {
                Orientation::CounterClockwise => (a, b, c),
                Orientation::Clockwise => (a, c, b),
                Orientation::Collinear => return Ok(()),
            };
            let r1 = incircle(&a, &b, &c, &d);
            prop_assert_eq!(incircle(&b, &c, &a, &d), r1);
            prop_assert_eq!(incircle(&c, &a, &b, &d), r1);
        }

        /// Triangle vertices are never strictly inside their own circle.
        #[test]
        fn vertices_not_in_own_circle(a in arb_point(), b in arb_point(), c in arb_point()) {
            let (a, b, c) = match orient2d(&a, &b, &c) {
                Orientation::CounterClockwise => (a, b, c),
                Orientation::Clockwise => (a, c, b),
                Orientation::Collinear => return Ok(()),
            };
            prop_assert!(!incircle(&a, &b, &c, &a));
            prop_assert!(!incircle(&a, &b, &c, &b));
            prop_assert!(!incircle(&a, &b, &c, &c));
        }

        /// f32 storage gives identical predicate results to f64.
        #[test]
        fn f32_matches_f64(a in arb_point(), b in arb_point(), c in arb_point(), d in arb_point()) {
            let (a32, b32, c32, d32): (Point<f32>, Point<f32>, Point<f32>, Point<f32>) =
                (a.cast(), b.cast(), c.cast(), d.cast());
            prop_assert_eq!(orient2d(&a, &b, &c), orient2d(&a32, &b32, &c32));
            if orient2d(&a, &b, &c) == Orientation::CounterClockwise {
                prop_assert_eq!(incircle(&a, &b, &c, &d), incircle(&a32, &b32, &c32, &d32));
            }
        }
    }
}
