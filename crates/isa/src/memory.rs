//! A flat functional memory arena.
//!
//! The simulator is execute-driven: kernels read and write real values so
//! that GEMM results can be checked against a scalar reference. Timing is
//! modelled separately in `save-mem`; this arena is only the *functional*
//! backing store.

use crate::{Bf16, VecBf16, VecF32, LANES, ML_LANES};

/// A byte-addressed functional memory of fixed size.
///
/// Addresses are plain offsets; kernel generators allocate matrix regions
/// with [`Memory::alloc`]. All vector accesses in our kernels are 64-byte
/// aligned, but the arena itself supports any 4-byte-aligned access.
///
/// ```
/// use save_isa::Memory;
/// let mut mem = Memory::new(1024);
/// mem.write_f32(16, 2.5);
/// assert_eq!(mem.read_f32(16), 2.5);
/// let v = mem.read_vec_f32(0);
/// assert_eq!(v.lane(4), 2.5);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Memory {
    data: Vec<u8>,
    next_alloc: u64,
}

impl Memory {
    /// Creates a zero-filled memory of `bytes` bytes.
    pub fn new(bytes: usize) -> Self {
        Memory { data: vec![0; bytes], next_alloc: 0 }
    }

    /// Total size in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Allocates a 64-byte-aligned region of `bytes` bytes and returns its
    /// base address, growing the arena if needed.
    pub fn alloc(&mut self, bytes: usize) -> u64 {
        let base = (self.next_alloc + 63) & !63;
        self.next_alloc = base + bytes as u64;
        if self.next_alloc as usize > self.data.len() {
            self.data.resize(self.next_alloc as usize, 0);
        }
        base
    }

    /// Reads an `f32` at `addr`.
    ///
    /// # Panics
    /// Panics if `addr + 4` exceeds the arena.
    pub fn read_f32(&self, addr: u64) -> f32 {
        let a = addr as usize;
        f32::from_bits(u32::from_le_bytes(self.data[a..a + 4].try_into().unwrap()))
    }

    /// Writes an `f32` at `addr`.
    ///
    /// # Panics
    /// Panics if `addr + 4` exceeds the arena.
    pub fn write_f32(&mut self, addr: u64, v: f32) {
        let a = addr as usize;
        self.data[a..a + 4].copy_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Reads a BF16 value at `addr`.
    ///
    /// # Panics
    /// Panics if `addr + 2` exceeds the arena.
    pub fn read_bf16(&self, addr: u64) -> Bf16 {
        let a = addr as usize;
        Bf16::from_bits(u16::from_le_bytes(self.data[a..a + 2].try_into().unwrap()))
    }

    /// Writes a BF16 value at `addr`.
    ///
    /// # Panics
    /// Panics if `addr + 2` exceeds the arena.
    pub fn write_bf16(&mut self, addr: u64, v: Bf16) {
        let a = addr as usize;
        self.data[a..a + 2].copy_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Reads a full 16-lane FP32 vector at `addr`.
    pub fn read_vec_f32(&self, addr: u64) -> VecF32 {
        let mut out = [0.0f32; LANES];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.read_f32(addr + 4 * i as u64);
        }
        VecF32::from_lanes(out)
    }

    /// Writes a full 16-lane FP32 vector at `addr`.
    pub fn write_vec_f32(&mut self, addr: u64, v: VecF32) {
        for i in 0..LANES {
            self.write_f32(addr + 4 * i as u64, v.lane(i));
        }
    }

    /// Reads a 32-lane BF16 vector at `addr`.
    pub fn read_vec_bf16(&self, addr: u64) -> VecBf16 {
        let mut out = [Bf16::ZERO; ML_LANES];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.read_bf16(addr + 2 * i as u64);
        }
        VecBf16::from_lanes(out)
    }

    /// Writes a 32-lane BF16 vector at `addr`.
    pub fn write_vec_bf16(&mut self, addr: u64, v: VecBf16) {
        for i in 0..ML_LANES {
            self.write_bf16(addr + 2 * i as u64, v.lane(i));
        }
    }

    /// Reads the broadcast of the FP32 scalar at `addr` to all lanes.
    pub fn read_bcast_f32(&self, addr: u64) -> VecF32 {
        VecF32::splat(self.read_f32(addr))
    }

    /// Reads the broadcast of the 32-bit BF16 pair at `addr` to all lane
    /// groups (the `VDPBF16PS` embedded-broadcast form).
    pub fn read_bcast_bf16_pair(&self, addr: u64) -> VecBf16 {
        VecBf16::splat_pair(self.read_bf16(addr), self.read_bf16(addr + 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_line_aligned_and_grows() {
        let mut m = Memory::new(0);
        let a = m.alloc(10);
        let b = m.alloc(100);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 10);
        assert!(m.size() >= (b + 100) as usize);
    }

    #[test]
    fn f32_roundtrip() {
        let mut m = Memory::new(256);
        m.write_f32(12, -7.25);
        assert_eq!(m.read_f32(12), -7.25);
    }

    #[test]
    fn vector_roundtrip() {
        let mut m = Memory::new(256);
        let mut v = VecF32::splat(1.0);
        v.set_lane(5, 42.0);
        m.write_vec_f32(64, v);
        assert_eq!(m.read_vec_f32(64), v);
    }

    #[test]
    fn bf16_vector_roundtrip() {
        let mut m = Memory::new(256);
        let mut lanes = [Bf16::ZERO; ML_LANES];
        for (i, l) in lanes.iter_mut().enumerate() {
            *l = Bf16::from_f32(i as f32);
        }
        let v = VecBf16::from_lanes(lanes);
        m.write_vec_bf16(128, v);
        assert_eq!(m.read_vec_bf16(128), v);
    }

    #[test]
    fn broadcast_reads() {
        let mut m = Memory::new(256);
        m.write_f32(8, 3.0);
        assert_eq!(m.read_bcast_f32(8), VecF32::splat(3.0));
        m.write_bf16(32, Bf16::from_f32(1.5));
        m.write_bf16(34, Bf16::from_f32(2.5));
        let v = m.read_bcast_bf16_pair(32);
        assert_eq!(v.lane(0).to_f32(), 1.5);
        assert_eq!(v.lane(1).to_f32(), 2.5);
        assert_eq!(v.lane(30).to_f32(), 1.5);
    }
}
