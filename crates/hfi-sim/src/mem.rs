//! Sparse data memory for the simulator.

use std::cell::Cell;
use std::collections::HashMap;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_BITS;
/// Entries of the direct-mapped translation cache (a power of two).
const CACHED_PAGES: usize = 16;

/// A sparse 64-bit byte-addressable memory.
///
/// Pages materialize (zero-filled) on first write; reads of untouched
/// memory return zero, like anonymous mmap.
///
/// The page table maps page number to a slot in flat page storage, with
/// a small direct-mapped translation cache in front: a kernel's working
/// set is a handful of pages (code data, heap, stack), so most reads and
/// writes skip the `HashMap` entirely, and a non-page-crossing access
/// touches its page once instead of once per byte.
#[derive(Debug, Default, Clone)]
pub struct SparseMemory {
    page_table: HashMap<u64, u32>,
    storage: Vec<Box<[u8]>>,
    /// Recently resolved pages: entry `page_no % CACHED_PAGES` holds
    /// `(page_no + 1, storage slot)`, and a zero tag is empty. Slots are
    /// stable (pages are never freed), so an entry never goes stale.
    cached: [Cell<(u64, u32)>; CACHED_PAGES],
}

impl SparseMemory {
    /// An empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn cache_entry(&self, page_no: u64) -> &Cell<(u64, u32)> {
        &self.cached[page_no as usize % CACHED_PAGES]
    }

    #[inline]
    fn slot_of(&self, page_no: u64) -> Option<u32> {
        let entry = self.cache_entry(page_no);
        let (tag, slot) = entry.get();
        if tag == page_no + 1 {
            return Some(slot);
        }
        let slot = *self.page_table.get(&page_no)?;
        entry.set((page_no + 1, slot));
        Some(slot)
    }

    #[inline]
    fn slot_mut(&mut self, page_no: u64) -> u32 {
        let (tag, slot) = self.cache_entry(page_no).get();
        if tag == page_no + 1 {
            return slot;
        }
        let slot = match self.page_table.get(&page_no) {
            Some(&slot) => slot,
            None => {
                let slot = self.storage.len() as u32;
                self.storage
                    .push(vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
                self.page_table.insert(page_no, slot);
                slot
            }
        };
        self.cache_entry(page_no).set((page_no + 1, slot));
        slot
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.slot_of(addr >> PAGE_BITS) {
            Some(slot) => self.storage[slot as usize][(addr & (PAGE_SIZE - 1)) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let slot = self.slot_mut(addr >> PAGE_BITS);
        self.storage[slot as usize][(addr & (PAGE_SIZE - 1)) as usize] = value;
    }

    /// Reads `size` bytes (1–8) little-endian, zero-extended to u64.
    pub fn read(&self, addr: u64, size: u8) -> u64 {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        if offset + size as usize <= PAGE_SIZE as usize {
            let Some(slot) = self.slot_of(addr >> PAGE_BITS) else {
                return 0;
            };
            let page = &self.storage[slot as usize];
            let mut buf = [0u8; 8];
            buf[..size as usize].copy_from_slice(&page[offset..offset + size as usize]);
            return u64::from_le_bytes(buf);
        }
        let mut value = 0u64;
        for i in 0..size as u64 {
            value |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        value
    }

    /// Writes the low `size` bytes (1–8) of `value` little-endian.
    pub fn write(&mut self, addr: u64, value: u64, size: u8) {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        if offset + size as usize <= PAGE_SIZE as usize {
            let slot = self.slot_mut(addr >> PAGE_BITS);
            let page = &mut self.storage[slot as usize];
            page[offset..offset + size as usize]
                .copy_from_slice(&value.to_le_bytes()[..size as usize]);
            return;
        }
        for i in 0..size as u64 {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Bulk-initializes memory from a byte slice, one page at a time.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let offset = (addr & (PAGE_SIZE - 1)) as usize;
            let n = bytes.len().min(PAGE_SIZE as usize - offset);
            let slot = self.slot_mut(addr >> PAGE_BITS);
            self.storage[slot as usize][offset..offset + n].copy_from_slice(&bytes[..n]);
            addr = addr.wrapping_add(n as u64);
            bytes = &bytes[n..];
        }
    }

    /// Reads `len` bytes into a vector.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| self.read_u8(addr + i)).collect()
    }

    /// Number of materialized 4 KiB pages.
    pub fn touched_pages(&self) -> usize {
        self.page_table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let mem = SparseMemory::new();
        assert_eq!(mem.read(0xDEAD_BEEF, 8), 0);
    }

    #[test]
    fn little_endian_roundtrip() {
        let mut mem = SparseMemory::new();
        mem.write(0x1000, 0x1122_3344_5566_7788, 8);
        assert_eq!(mem.read(0x1000, 8), 0x1122_3344_5566_7788);
        assert_eq!(mem.read(0x1000, 4), 0x5566_7788);
        assert_eq!(mem.read(0x1000, 1), 0x88);
        assert_eq!(mem.read_u8(0x1007), 0x11);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = SparseMemory::new();
        mem.write(PAGE_SIZE - 4, 0xAABB_CCDD_EEFF_0011, 8);
        assert_eq!(mem.read(PAGE_SIZE - 4, 8), 0xAABB_CCDD_EEFF_0011);
        assert_eq!(mem.touched_pages(), 2);
    }

    #[test]
    fn colliding_cache_entries_keep_pages_apart() {
        // Pages 16 apart share a cache entry; page 0 shares the empty
        // tag's slot 0.
        let mut mem = SparseMemory::new();
        let pages: Vec<u64> = (0..4u64)
            .map(|i| i * CACHED_PAGES as u64 * PAGE_SIZE)
            .collect();
        for round in 0..3u64 {
            for (i, &base) in pages.iter().enumerate() {
                let before = if round == 0 {
                    0
                } else {
                    (round - 1) * 10 + i as u64
                };
                assert_eq!(mem.read(base + 8, 8), before);
                mem.write(base + 8, round * 10 + i as u64, 8);
                assert_eq!(
                    mem.read(base + 8 + PAGE_SIZE, 8),
                    0,
                    "neighbour stays untouched"
                );
            }
        }
        assert_eq!(mem.touched_pages(), pages.len());
    }

    #[test]
    fn bulk_bytes() {
        let mut mem = SparseMemory::new();
        mem.write_bytes(0x2000, b"hello");
        assert_eq!(mem.read_bytes(0x2000, 5), b"hello");
        // Across two page boundaries.
        let image: Vec<u8> = (0..2 * PAGE_SIZE as usize + 10).map(|i| i as u8).collect();
        mem.write_bytes(0x5000 - 3, &image);
        assert_eq!(mem.read_bytes(0x5000 - 3, image.len()), image);
        assert_eq!(mem.touched_pages(), 1 + 4);
    }
}
