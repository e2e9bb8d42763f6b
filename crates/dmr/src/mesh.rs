//! The device-resident mesh (paper §6.2).
//!
//! "The triangle vertices are stored in two associative arrays for the x
//! and y coordinates, and the n triangles are stored in an n×3 matrix …
//! the neighborhood information of the n triangles can be represented by
//! an n×3 matrix. … Additionally, we maintain a flag with each triangle to
//! denote if it is bad."
//!
//! All arrays are virtual-GPU global memory: [`SharedSlice`] for the plain
//! matrices (written only by cavity owners, per the §7.3 protocol) and an
//! atomic flag word per triangle. Slot allocation is a bump cursor plus
//! per-winner recycling of the slots its own cavity freed (§7.2,
//! "Recycle").

use morph_core::addition::BumpAllocator;
use morph_core::{PayloadReader, PayloadWriter};
use morph_geometry::{
    min_angle_deg, orient2d, Coord, Orientation, Point, TriQuality,
};
use morph_gpu_sim::{AtomicU32Slice, SharedSlice, ThreadCtx};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Hull marker in the neighbor matrix.
pub const NO_NEIGHBOR: u32 = u32::MAX;

/// Logical device-address window for the mesh arrays (cost model /
/// morph-lens). Each array gets its own disjoint sub-window so traffic
/// attributes per structure; [`Mesh::lens_regions`] reports the extents a
/// pipeline registers. Windows are wide enough that no realistic regrow
/// ever crosses into the next one.
pub const DEV_BASE: usize = 0x3000_0000_0000;
/// Byte stride between the mesh's per-array sub-windows.
pub const DEV_STRIDE: usize = 0x0008_0000_0000;
/// Per-triangle flag words (`u32` each).
pub const FLAGS_BASE: usize = DEV_BASE;
/// Triangle vertex matrix (`[u32; 3]` rows).
pub const VERTS_BASE: usize = DEV_BASE + DEV_STRIDE;
/// Triangle neighbor matrix (`[u32; 3]` rows).
pub const NBRS_BASE: usize = DEV_BASE + 2 * DEV_STRIDE;
/// Vertex x-coordinates; y-coordinates live one stride above, so the
/// single registered `dmr.coords` region spans both.
pub const COORDS_BASE: usize = DEV_BASE + 3 * DEV_STRIDE;
const PY_BASE: usize = COORDS_BASE + DEV_STRIDE;
/// Allocation cursors: triangle bump cursor at `+0`, vertex counter at
/// `+8` (own segments, so cursor contention attributes distinctly).
pub const CURSORS_BASE: usize = DEV_BASE + 5 * DEV_STRIDE;

/// Flag bits.
pub const F_DELETED: u32 = 1;
pub const F_BAD: u32 = 2;
/// Refinement of this triangle was abandoned (degenerate circumcenter at
/// grid resolution). Counted, never refined again.
pub const F_FROZEN: u32 = 4;

/// A mesh's checkpointed arrays: `(x, y)` per vertex and
/// `(vertices, neighbors, flags)` per triangle slot.
pub(crate) struct MeshState {
    coords: Vec<(f64, f64)>,
    tris: Vec<([u32; 3], [u32; 3], u32)>,
}

/// A refinable triangulated mesh in GPU-style storage.
pub struct Mesh<C: Coord> {
    px: SharedSlice<C>,
    py: SharedSlice<C>,
    nverts: AtomicU32,
    verts: SharedSlice<[u32; 3]>,
    nbrs: SharedSlice<[u32; 3]>,
    flags: AtomicU32Slice,
    /// Triangle-slot allocator (`len()` = high-water slot count).
    pub alloc: BumpAllocator,
    vert_overflow: AtomicBool,
    pub quality: TriQuality,
}

/// Host-side summary of a mesh.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeshStats {
    pub live: usize,
    pub bad: usize,
    pub frozen: usize,
    pub verts: usize,
    pub slots: usize,
}

impl<C: Coord> Mesh<C> {
    /// Build from an initial triangulation, provisioning `slot_factor ×`
    /// triangle slots and `vert_factor ×` vertex slots for refinement
    /// growth (§7.1 pre-allocation; the on-demand policy starts smaller
    /// and grows).
    pub fn from_triangulation(
        t: &morph_geometry::Triangulation<C>,
        quality: TriQuality,
        slot_factor: f64,
        vert_factor: f64,
    ) -> Self {
        let nt = t.triangles.len();
        let nv = t.points.len();
        let tri_cap = ((nt as f64 * slot_factor).ceil() as usize).max(nt + 16);
        let vert_cap = ((nv as f64 * vert_factor).ceil() as usize).max(nv + 16);

        let mut px = SharedSlice::new(vert_cap, C::ZERO);
        let mut py = SharedSlice::new(vert_cap, C::ZERO);
        for (i, p) in t.points.iter().enumerate() {
            px.as_mut_slice()[i] = p.x;
            py.as_mut_slice()[i] = p.y;
        }

        let mut verts = SharedSlice::new(tri_cap, [0u32; 3]);
        let mut nbrs = SharedSlice::new(tri_cap, [NO_NEIGHBOR; 3]);
        verts.as_mut_slice()[..nt].copy_from_slice(&t.triangles);
        nbrs.as_mut_slice()[..nt].copy_from_slice(&t.neighbors);

        let mesh = Self {
            px,
            py,
            nverts: AtomicU32::new(nv as u32),
            verts,
            nbrs,
            flags: AtomicU32Slice::new(tri_cap, 0),
            alloc: BumpAllocator::new(nt, tri_cap).with_dev_base(CURSORS_BASE),
            vert_overflow: AtomicBool::new(false),
            quality,
        };
        for t in 0..nt as u32 {
            mesh.recompute_bad(t);
        }
        mesh
    }

    // ---- vertices ------------------------------------------------------

    #[inline]
    pub fn num_verts(&self) -> usize {
        self.nverts.load(Ordering::Acquire) as usize
    }

    pub fn vert_capacity(&self) -> usize {
        self.px.len()
    }

    #[inline]
    pub fn point(&self, v: u32) -> Point<C> {
        Point::new(self.px.get(v as usize), self.py.get(v as usize))
    }

    /// Device-side vertex insertion; `None` (and the overflow flag) when
    /// the coordinate arrays are full.
    pub fn add_vertex(&self, ctx: &mut ThreadCtx<'_>, p: Point<C>) -> Option<u32> {
        let id = ctx.atomic_add_u32_at(&self.nverts, 1, CURSORS_BASE + 8);
        if (id as usize) < self.px.len() {
            let sz = std::mem::size_of::<C>();
            ctx.gmem_addr(COORDS_BASE + id as usize * sz);
            ctx.gmem_addr(PY_BASE + id as usize * sz);
            self.px.set(id as usize, p.x);
            self.py.set(id as usize, p.y);
            Some(id)
        } else {
            self.nverts.fetch_sub(1, Ordering::AcqRel);
            self.vert_overflow.store(true, Ordering::Release);
            None
        }
    }

    /// Host-side vertex insertion.
    pub fn add_vertex_host(&self, p: Point<C>) -> Option<u32> {
        let id = self.nverts.fetch_add(1, Ordering::AcqRel);
        if (id as usize) < self.px.len() {
            self.px.set(id as usize, p.x);
            self.py.set(id as usize, p.y);
            Some(id)
        } else {
            self.nverts.fetch_sub(1, Ordering::AcqRel);
            self.vert_overflow.store(true, Ordering::Release);
            None
        }
    }

    pub fn vert_overflowed(&self) -> bool {
        self.vert_overflow.load(Ordering::Acquire)
    }

    // ---- triangles -----------------------------------------------------

    /// High-water triangle slot count (live + deleted).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.alloc.len()
    }

    pub fn tri_capacity(&self) -> usize {
        self.verts.len()
    }

    #[inline]
    pub fn tri(&self, t: u32) -> [u32; 3] {
        self.verts.get(t as usize)
    }

    #[inline]
    pub fn neighbors(&self, t: u32) -> [u32; 3] {
        self.nbrs.get(t as usize)
    }

    #[inline]
    pub fn tri_points(&self, t: u32) -> [Point<C>; 3] {
        let [a, b, c] = self.tri(t);
        [self.point(a), self.point(b), self.point(c)]
    }

    /// Overwrite a triangle slot (owner-only write).
    #[inline]
    pub fn write_tri(&self, t: u32, verts: [u32; 3], nbrs: [u32; 3]) {
        self.verts.set(t as usize, verts);
        self.nbrs.set(t as usize, nbrs);
    }

    /// Overwrite one neighbor link (owner-only write).
    #[inline]
    pub fn set_neighbor(&self, t: u32, edge: usize, n: u32) {
        let mut nb = self.nbrs.get(t as usize);
        nb[edge] = n;
        self.nbrs.set(t as usize, nb);
    }

    /// The edge index of `t` whose reversed edge `(e1, e0)` it is; used to
    /// fix an outer triangle's back-pointer after retriangulation.
    pub fn edge_index_of(&self, t: u32, e0: u32, e1: u32) -> Option<usize> {
        let tri = self.tri(t);
        (0..3).find(|&i| tri[i] == e0 && tri[(i + 1) % 3] == e1)
    }

    // ---- cost-model metering (morph-lens) ------------------------------
    //
    // The mesh accessors are ctx-free (cavity building walks the mesh from
    // plain host code), so kernels report their global-memory footprint
    // explicitly at the logical window addresses via these helpers. All of
    // them are no-ops unless the launch is metered.

    /// Report a flag-word read for triangle `t`.
    #[inline]
    pub fn meter_flags(&self, ctx: &ThreadCtx<'_>, t: u32) {
        ctx.gmem_addr(FLAGS_BASE + t as usize * 4);
    }

    /// Report a vertex-matrix row access for triangle `t`.
    #[inline]
    pub fn meter_tri(&self, ctx: &ThreadCtx<'_>, t: u32) {
        ctx.gmem_addr(VERTS_BASE + t as usize * 12);
    }

    /// Report a neighbor-matrix row access for triangle `t`.
    #[inline]
    pub fn meter_nbrs(&self, ctx: &ThreadCtx<'_>, t: u32) {
        ctx.gmem_addr(NBRS_BASE + t as usize * 12);
    }

    /// Report a coordinate-pair access for vertex `v`.
    #[inline]
    pub fn meter_coords(&self, ctx: &ThreadCtx<'_>, v: u32) {
        let sz = std::mem::size_of::<C>();
        ctx.gmem_addr(COORDS_BASE + v as usize * sz);
        ctx.gmem_addr(PY_BASE + v as usize * sz);
    }

    /// The named `(name, base, len_bytes)` regions a DMR pipeline registers
    /// with the lens. Extents track current capacity — re-register after a
    /// regrow.
    pub fn lens_regions(&self) -> [(&'static str, usize, usize); 5] {
        let tris = self.tri_capacity();
        let sz = std::mem::size_of::<C>();
        [
            ("dmr.flags", FLAGS_BASE, tris * 4),
            ("dmr.tri_verts", VERTS_BASE, tris * 12),
            ("dmr.tri_nbrs", NBRS_BASE, tris * 12),
            // One region spanning the x window plus the y extent above it.
            ("dmr.coords", COORDS_BASE, DEV_STRIDE + self.vert_capacity() * sz),
            ("dmr.cursors", CURSORS_BASE, 16),
        ]
    }

    // ---- flags ---------------------------------------------------------

    #[inline]
    pub fn flags_of(&self, t: u32) -> u32 {
        self.flags.load(t as usize)
    }

    #[inline]
    pub fn is_deleted(&self, t: u32) -> bool {
        self.flags_of(t) & F_DELETED != 0
    }

    #[inline]
    pub fn is_bad(&self, t: u32) -> bool {
        let f = self.flags_of(t);
        f & F_BAD != 0 && f & (F_DELETED | F_FROZEN) == 0
    }

    #[inline]
    pub fn is_frozen(&self, t: u32) -> bool {
        self.flags_of(t) & F_FROZEN != 0
    }

    #[inline]
    pub fn mark_deleted(&self, t: u32) {
        self.flags.store(t as usize, F_DELETED);
    }

    /// Abandon refinement of `t` (degenerate at grid resolution).
    #[inline]
    pub fn freeze(&self, t: u32) {
        self.flags.at(t as usize).fetch_or(F_FROZEN, Ordering::AcqRel);
    }

    /// Evaluate the quality constraint and set/clear the bad flag.
    /// Returns whether the triangle is bad.
    pub fn recompute_bad(&self, t: u32) -> bool {
        let [a, b, c] = self.tri_points(t);
        let bad = self.quality.is_bad(&a, &b, &c);
        self.flags.store(t as usize, if bad { F_BAD } else { 0 });
        bad
    }

    // ---- host-side management -----------------------------------------

    /// Grow triangle storage to `cap` slots (host-side, §7.1 Host-Only /
    /// Kernel-Host reallocation).
    pub fn grow_tris(&mut self, cap: usize) {
        if cap <= self.tri_capacity() {
            return;
        }
        self.verts.grow(cap, [0; 3]);
        self.nbrs.grow(cap, [NO_NEIGHBOR; 3]);
        self.flags.grow(cap, 0);
        self.alloc.set_capacity(cap);
    }

    /// Grow vertex storage to `cap` (host-side).
    pub fn grow_verts(&mut self, cap: usize) {
        if cap <= self.vert_capacity() {
            return;
        }
        self.px.grow(cap, C::ZERO);
        self.py.grow(cap, C::ZERO);
        self.vert_overflow.store(false, Ordering::Release);
    }

    /// Ids of live (non-deleted) triangles.
    pub fn live_triangles(&self) -> Vec<u32> {
        (0..self.num_slots() as u32).filter(|&t| !self.is_deleted(t)).collect()
    }

    /// Ids of currently-bad triangles.
    pub fn bad_triangles(&self) -> Vec<u32> {
        (0..self.num_slots() as u32).filter(|&t| self.is_bad(t)).collect()
    }

    pub fn stats(&self) -> MeshStats {
        let slots = self.num_slots();
        let mut s = MeshStats {
            slots,
            verts: self.num_verts(),
            ..Default::default()
        };
        for t in 0..slots as u32 {
            if self.is_deleted(t) {
                continue;
            }
            s.live += 1;
            if self.is_bad(t) {
                s.bad += 1;
            }
            if self.is_frozen(t) {
                s.frozen += 1;
            }
        }
        s
    }

    /// Renumber triangle slots in BFS order over the adjacency (the §6.1
    /// memory-layout optimisation). Host-side; compacts away deleted slots.
    pub fn reorder_for_locality(&mut self) {
        let slots = self.num_slots();
        let mut new_id = vec![NO_NEIGHBOR; slots];
        let mut order = Vec::with_capacity(slots);
        let mut queue = std::collections::VecDeque::new();
        for start in 0..slots as u32 {
            if self.is_deleted(start) || new_id[start as usize] != NO_NEIGHBOR {
                continue;
            }
            new_id[start as usize] = order.len() as u32;
            order.push(start);
            queue.push_back(start);
            while let Some(t) = queue.pop_front() {
                for n in self.neighbors(t) {
                    if n != NO_NEIGHBOR
                        && !self.is_deleted(n)
                        && new_id[n as usize] == NO_NEIGHBOR
                    {
                        new_id[n as usize] = order.len() as u32;
                        order.push(n);
                        queue.push_back(n);
                    }
                }
            }
        }
        let live = order.len();
        let mut verts = vec![[0u32; 3]; live];
        let mut nbrs = vec![[NO_NEIGHBOR; 3]; live];
        let mut flags = vec![0u32; live];
        for (new, &old) in order.iter().enumerate() {
            verts[new] = self.tri(old);
            let mut nb = self.neighbors(old);
            for slot in nb.iter_mut() {
                if *slot != NO_NEIGHBOR {
                    *slot = new_id[*slot as usize];
                }
            }
            nbrs[new] = nb;
            flags[new] = self.flags_of(old);
        }
        let cap = self.tri_capacity().max(live);
        self.verts = SharedSlice::new(cap, [0; 3]);
        self.nbrs = SharedSlice::new(cap, [NO_NEIGHBOR; 3]);
        self.verts.as_mut_slice()[..live].copy_from_slice(&verts);
        self.nbrs.as_mut_slice()[..live].copy_from_slice(&nbrs);
        self.flags = AtomicU32Slice::from_vec(flags);
        self.flags.grow(cap, 0);
        self.alloc = BumpAllocator::new(live, cap).with_dev_base(CURSORS_BASE);
    }

    // ---- checkpoint/resume --------------------------------------------

    /// Append the mesh's resume state to a checkpoint payload. At a host-
    /// loop iteration boundary the coordinate, triangle, neighbor and flag
    /// arrays up to the allocator high-water fully determine the rest of
    /// the refinement. Coordinates travel as `f64` bits — exact for both
    /// precisions, because every grid value is exactly representable in
    /// `f32` and `f64` (see [`Coord`]).
    pub fn encode_state(&self, w: &mut PayloadWriter) {
        let nv = self.num_verts();
        let slots = self.num_slots();
        w.u64(nv as u64);
        w.u64(slots as u64);
        for v in 0..nv {
            w.f64(self.px.get(v).to_f64());
            w.f64(self.py.get(v).to_f64());
        }
        for t in 0..slots as u32 {
            for x in self.tri(t) {
                w.u32(x);
            }
            for n in self.neighbors(t) {
                w.u32(n);
            }
            w.u32(self.flags_of(t));
        }
    }

    /// Read and validate state written by
    /// [`encode_state`](Self::encode_state) without touching any mesh;
    /// [`apply_state`](Self::apply_state) installs it.
    pub(crate) fn read_state(r: &mut PayloadReader<'_>) -> Option<MeshState> {
        let nv = r.u64()? as usize;
        let slots = r.u64()? as usize;
        let mut coords = Vec::with_capacity(nv.min(1 << 20));
        for _ in 0..nv {
            coords.push((r.f64()?, r.f64()?));
        }
        let mut tris = Vec::with_capacity(slots.min(1 << 20));
        for _ in 0..slots {
            let verts = [r.u32()?, r.u32()?, r.u32()?];
            let nbrs = [r.u32()?, r.u32()?, r.u32()?];
            let flags = r.u32()?;
            tris.push((verts, nbrs, flags));
        }
        Some(MeshState { coords, tris })
    }

    /// Overwrite the mesh with `state`, growing storage as needed.
    pub(crate) fn apply_state(&mut self, state: MeshState) {
        let MeshState { coords, tris } = state;
        self.grow_verts(coords.len() + 16);
        self.grow_tris(tris.len() + 16);
        self.nverts.store(coords.len() as u32, Ordering::Release);
        for (v, &(x, y)) in coords.iter().enumerate() {
            self.px.set(v, C::from_f64(x));
            self.py.set(v, C::from_f64(y));
        }
        for (t, &(verts, nbrs, flags)) in tris.iter().enumerate() {
            self.write_tri(t as u32, verts, nbrs);
            self.flags.store(t, flags);
        }
        self.alloc =
            BumpAllocator::new(tris.len(), self.tri_capacity()).with_dev_base(CURSORS_BASE);
        self.vert_overflow.store(false, Ordering::Release);
    }

    /// Full structural validation (tests): CCW orientation, neighbor-link
    /// symmetry, flag consistency, and (optionally) the quality bound on
    /// every live unfrozen triangle.
    pub fn validate(&self, require_quality: bool) -> Result<(), String> {
        let slots = self.num_slots();
        for t in 0..slots as u32 {
            if self.is_deleted(t) {
                continue;
            }
            let [a, b, c] = self.tri_points(t);
            if orient2d(&a, &b, &c) != Orientation::CounterClockwise {
                return Err(format!("triangle {t} not CCW"));
            }
            let tri = self.tri(t);
            for i in 0..3 {
                let n = self.neighbors(t)[i];
                if n == NO_NEIGHBOR {
                    continue;
                }
                if n as usize >= slots {
                    return Err(format!("triangle {t} neighbor {n} out of range"));
                }
                if self.is_deleted(n) {
                    return Err(format!("triangle {t} points at deleted neighbor {n}"));
                }
                let (e0, e1) = (tri[i], tri[(i + 1) % 3]);
                let Some(j) = self.edge_index_of(n, e1, e0) else {
                    return Err(format!("edge {t}/{n} not mirrored"));
                };
                if self.neighbors(n)[j] != t {
                    return Err(format!("neighbor link {n}->{t} not symmetric"));
                }
            }
            if require_quality && self.is_bad(t) {
                return Err(format!(
                    "triangle {t} still bad (min angle {:.2}°)",
                    min_angle_deg(&a, &b, &c)
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_geometry::triangulate;

    fn small_mesh() -> Mesh<f64> {
        let pts: Vec<Point<f64>> = [
            (0.0, 0.0),
            (10.0, 0.0),
            (10.0, 10.0),
            (0.0, 10.0),
            (5.0, 5.0),
            (5.0, 0.2), // a point just above the bottom edge: flat (bad) triangles
        ]
        .iter()
        .map(|&(x, y)| Point::snapped(x, y))
        .collect();
        let t = triangulate(&pts).unwrap();
        Mesh::from_triangulation(&t, TriQuality::default(), 4.0, 4.0)
    }

    #[test]
    fn construction_and_flags() {
        let m = small_mesh();
        assert!(m.validate(false).is_ok());
        let s = m.stats();
        assert_eq!(s.live, s.slots);
        assert!(s.bad > 0, "the skinny triangle must be bad");
        assert_eq!(s.verts, 6);
        assert_eq!(m.bad_triangles().len(), s.bad);
        assert_eq!(m.live_triangles().len(), s.live);
    }

    #[test]
    fn vertex_growth_and_overflow() {
        let m = small_mesh();
        let cap = m.vert_capacity();
        let mut added = 0;
        while m
            .add_vertex_host(Point::snapped(100.0 + added as f64, 50.0))
            .is_some()
        {
            added += 1;
            assert!(added < cap + 2, "must eventually overflow");
        }
        assert!(m.vert_overflowed());
        assert_eq!(m.num_verts(), cap);
        let mut m = m;
        m.grow_verts(cap + 4);
        assert!(!m.vert_overflowed());
        assert!(m.add_vertex_host(Point::snapped(0.5, 0.5)).is_some());
    }

    #[test]
    fn triangle_growth() {
        let mut m = small_mesh();
        let cap = m.tri_capacity();
        m.grow_tris(cap + 10);
        assert_eq!(m.tri_capacity(), cap + 10);
        assert!(m.validate(false).is_ok());
        m.grow_tris(5); // shrink request is a no-op
        assert_eq!(m.tri_capacity(), cap + 10);
    }

    #[test]
    fn deletion_and_freeze_flags() {
        let m = small_mesh();
        assert!(!m.is_deleted(0));
        m.mark_deleted(0);
        assert!(m.is_deleted(0));
        assert!(!m.is_bad(0), "deleted is never bad");
        let bad = m.bad_triangles();
        let b = bad[0];
        m.freeze(b);
        assert!(m.is_frozen(b));
        assert!(!m.is_bad(b), "frozen is never bad");
    }

    #[test]
    fn reorder_preserves_structure_and_reduces_span() {
        let mut m = small_mesh();
        let before_stats = m.stats();
        m.mark_deleted(0);
        m.reorder_for_locality();
        assert!(m.validate(false).is_ok());
        let after = m.stats();
        assert_eq!(after.live, before_stats.live - 1);
        assert_eq!(after.live, after.slots, "compaction removes deleted slots");
    }

    #[test]
    fn edge_index_lookup() {
        let m = small_mesh();
        let t = 0u32;
        let tri = m.tri(t);
        assert_eq!(m.edge_index_of(t, tri[0], tri[1]), Some(0));
        assert_eq!(m.edge_index_of(t, tri[1], tri[2]), Some(1));
        assert_eq!(m.edge_index_of(t, tri[1], tri[0]), None);
    }
}
