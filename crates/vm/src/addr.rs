//! Address newtypes and page geometry.
//!
//! MACO uses 4 KB pages (Section IV.A fixes "the page table size is 4KB" in
//! the predictive-translation example, and the Fig. 6 experiments keep "a
//! uniform page size … 4KB"). Virtual addresses are 48-bit; a hardware walk
//! of the ARMv8 4 KB-granule tables reads one descriptor at each of four
//! levels, which is what a demand miss costs.

use std::fmt;
use std::ops::{Add, Sub};

/// Log2 of the page size.
pub const PAGE_SHIFT: u32 = 12;
/// Page size in bytes (4 KB).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
/// Dependent descriptor reads in one page-table walk.
pub const WALK_LEVELS: usize = 4;
/// Virtual address width (9 index bits × 4 levels + 12 = 48 bits).
pub const VA_BITS: u32 = 48;

/// A virtual address.
///
/// # Example
///
/// ```
/// use maco_vm::addr::VirtAddr;
/// let va = VirtAddr::new(0x1234);
/// assert_eq!(va.page_number(), 1);
/// assert_eq!(va.page_offset(), 0x234);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

/// A physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl VirtAddr {
    /// Creates a virtual address.
    ///
    /// # Panics
    ///
    /// Panics if the address exceeds the 48-bit translated range.
    pub fn new(raw: u64) -> Self {
        assert!(
            raw < (1 << VA_BITS),
            "virtual address {raw:#x} outside the 48-bit range"
        );
        VirtAddr(raw)
    }

    /// The raw address value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Virtual page number (address / 4 KB).
    pub const fn page_number(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Offset within the page.
    pub const fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// Number of distinct pages covered by `[self, self + bytes)`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn pages_spanned(self, bytes: u64) -> u64 {
        assert!(bytes > 0, "empty range has no pages");
        let first = self.page_number();
        let last = VirtAddr::new(self.0 + bytes - 1).page_number();
        last - first + 1
    }
}

impl PhysAddr {
    /// Creates a physical address.
    pub const fn new(raw: u64) -> Self {
        PhysAddr(raw)
    }

    /// The raw address value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Physical frame number.
    pub const fn frame_number(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Offset within the frame.
    pub const fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// First address of the containing frame.
    pub const fn frame_base(self) -> PhysAddr {
        PhysAddr(self.0 & !(PAGE_SIZE - 1))
    }
}

impl Add<u64> for VirtAddr {
    type Output = VirtAddr;
    fn add(self, rhs: u64) -> VirtAddr {
        VirtAddr::new(self.0 + rhs)
    }
}

impl Sub<u64> for VirtAddr {
    type Output = VirtAddr;
    fn sub(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0 - rhs)
    }
}

impl Add<u64> for PhysAddr {
    type Output = PhysAddr;
    fn add(self, rhs: u64) -> PhysAddr {
        PhysAddr(self.0 + rhs)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#014x}", self.0)
    }
}

impl fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pa:{:#014x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_decomposition() {
        let va = VirtAddr::new(0x12345);
        assert_eq!(va.page_number(), 0x12);
        assert_eq!(va.page_offset(), 0x345);
    }

    #[test]
    fn pages_spanned_counts_boundaries() {
        let base = VirtAddr::new(PAGE_SIZE - 8);
        assert_eq!(base.pages_spanned(8), 1);
        assert_eq!(base.pages_spanned(9), 2);
        assert_eq!(VirtAddr::new(0).pages_spanned(PAGE_SIZE), 1);
        assert_eq!(VirtAddr::new(0).pages_spanned(PAGE_SIZE + 1), 2);
        // The paper's Fig. 4 example: a 1024-element FP64 row (8 KB) covers
        // two 4 KB pages when page-aligned.
        assert_eq!(VirtAddr::new(0).pages_spanned(1024 * 8), 2);
    }

    #[test]
    #[should_panic(expected = "48-bit")]
    fn va_range_enforced() {
        let _ = VirtAddr::new(1 << VA_BITS);
    }

    #[test]
    fn phys_addr_lines_and_frames() {
        let pa = PhysAddr::new(0x1040);
        assert_eq!(pa.frame_number(), 1);
        assert_eq!(pa.frame_base().raw(), 0x1000);
        assert_eq!(pa.page_offset(), 0x40);
    }

    #[test]
    fn arithmetic() {
        assert_eq!((VirtAddr::new(0x1000) + 0x10).raw(), 0x1010);
        assert_eq!((VirtAddr::new(0x1010) - 0x10).raw(), 0x1000);
        assert_eq!((PhysAddr::new(0x20) + 0x20).raw(), 0x40);
    }

    #[test]
    fn display_formats() {
        assert!(VirtAddr::new(0x1000).to_string().starts_with("va:"));
        assert!(PhysAddr::new(0x1000).to_string().starts_with("pa:"));
        assert_eq!(format!("{:x}", VirtAddr::new(0xabc)), "abc");
    }
}
